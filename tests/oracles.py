"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive (loops, enumeration, finite
differences) and shares no code with the library paths it verifies, except
the chains of taped ops that a fused op replaced, which check it bit for
bit: `asl_oracle` (`T.asl`), `retention_blocks_oracle`
(`T.retention_blocks`), `merge_blocks_oracle` (`T.merge_blocks`),
`session_heads_oracle` (`T.session_heads`) and `cosine_distance_oracle`
(`T.cosine_distance`); and `split_oracle`, the
image-by-image generator that `datagen._split` replaced, which checks it
byte for byte.
"""

import math

import numpy as np

from krt.seeds import substream_seed

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


def finite_diff_grad(f, arr: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar-valued f() w.r.t. arr (in place)."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = ABS_FLOOR) -> float:
    """Elementwise |a-n| / max(|n|, floor), reduced to the worst entry."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(n), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def attention_oracle(kt, kr, patches, w_q, w_k, w_v, w_o, b_o, heads: int) -> np.ndarray:
    """Single-query multi-head cross-attention, one head at a time.

    kt: [d]; kr: [d]; patches: [L,d]; w_q/w_k/w_v: [d,l]; w_o: [l,d]; b_o: [d].
    No batched reshaping tricks: heads and sequence positions are explicit
    python loops over slices.
    """
    d = kt.shape[0]
    l = w_q.shape[1]
    dh = l // heads
    seq = [kr] + [patches[i] for i in range(patches.shape[0])]
    n = len(seq)
    q = np.zeros(l)
    for j in range(l):
        q[j] = sum(kt[i] * w_q[i, j] for i in range(d))
    ks = [np.array([sum(row[i] * w_k[i, j] for i in range(d)) for j in range(l)]) for row in seq]
    vs = [np.array([sum(row[i] * w_v[i, j] for i in range(d)) for j in range(l)]) for row in seq]
    z = np.zeros(l)
    scale = 1.0 / np.sqrt(l / heads)
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = np.array([float(np.dot(q[lo:hi], k[lo:hi])) * scale for k in ks])
        scores = scores - scores.max()
        w = np.exp(scores)
        w = w / w.sum()
        ctx = np.zeros(dh)
        for i in range(n):
            ctx += w[i] * vs[i][lo:hi]
        z[lo:hi] = ctx
    out = np.zeros(d)
    for j in range(d):
        out[j] = sum(z[i] * w_o[i, j] for i in range(l)) + b_o[j]
    return out


def layer_norm_oracle(x, gain, bias, eps: float = 1e-5) -> np.ndarray:
    """One vector's layer norm with explicit sums."""
    d = len(x)
    mu = sum(float(x[i]) for i in range(d)) / d
    var = sum((float(x[i]) - mu) ** 2 for i in range(d)) / d
    inv = 1.0 / math.sqrt(var + eps)
    return np.array([(float(x[i]) - mu) * inv * gain[i] + bias[i] for i in range(d)])


def ica_embedding_oracle(state, session_index: int, patches) -> np.ndarray:
    """One image's embedding for one session (1-based), all in loops.

    norm1 of the transfer token, the retention token and every patch, then
    `attention_oracle`, the transfer-token residual, norm2, and an MLP with
    exact GELU through math.erf, plus the last residual. patches: [L, d].
    """
    def data(name):
        return getattr(state, name).data

    heads = state.config.heads
    g1, b1 = data("norm1_gain"), data("norm1_bias")
    kt = state.kt_token.data
    kr = state.kr_tokens[session_index - 1].data
    rows = np.array([layer_norm_oracle(patches[i], g1, b1) for i in range(patches.shape[0])])
    ca = attention_oracle(
        layer_norm_oracle(kt, g1, b1), layer_norm_oracle(kr, g1, b1), rows,
        data("w_q"), data("w_k"), data("w_v"), data("w_o"), data("b_o"), heads=heads,
    )
    e1 = np.array([kt[j] + ca[j] for j in range(len(kt))])
    h = layer_norm_oracle(e1, data("norm2_gain"), data("norm2_bias"))
    w1, c1, w2, c2 = data("mlp_w1"), data("mlp_b1"), data("mlp_w2"), data("mlp_b2")
    d, hid = w1.shape
    u = [sum(h[i] * w1[i, j] for i in range(d)) + c1[j] for j in range(hid)]
    u = [x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in u]
    return np.array([e1[j] + sum(u[i] * w2[i, j] for i in range(hid)) + c2[j] for j in range(d)])


def attention_block_oracle(q, rows, w_k, w_v, heads: int, scale: float) -> np.ndarray:
    """[B, heads, dh+1]: each head's softmax context over the rows, then its lse.

    q: [l]; rows: [B,n,d]; w_k/w_v: [d,l]. One image, head and row at a time.
    """
    bsz, n, _ = rows.shape
    l = q.shape[0]
    dh = l // heads
    out = np.zeros((bsz, heads, dh + 1))
    for b in range(bsz):
        keys = [rows[b, i] @ w_k for i in range(n)]
        vals = [rows[b, i] @ w_v for i in range(n)]
        for h in range(heads):
            lo, hi = h * dh, (h + 1) * dh
            scores = np.array([float(np.dot(q[lo:hi], k[lo:hi])) * scale for k in keys])
            top = scores.max()
            w = np.exp(scores - top)
            for i in range(n):
                out[b, h, :dh] += w[i] / w.sum() * vals[i][lo:hi]
            out[b, h, dh] = top + np.log(w.sum())
    return out


def col2im3_oracle(cols: np.ndarray, shape) -> np.ndarray:
    """Scatter-add [B*h*w, 9c] columns of 3x3 neighbourhoods back to [B,h,w,c].

    The adjoint of unrolling each zero-padded neighbourhood into a row, with
    offsets (dy, dx) row-major and the channels of each offset contiguous.
    """
    b, h, w, c = shape
    cols = cols.reshape(b, h, w, 9 * c)
    padded = np.zeros((b, h + 2, w + 2, c), dtype=cols.dtype)
    k = 0
    for dy in range(3):
        for dx in range(3):
            padded[:, dy : dy + h, dx : dx + w, :] += cols[..., k * c : (k + 1) * c]
            k += 1
    return padded[:, 1:-1, 1:-1, :]


def asl_oracle(probs, targets, gamma_pos: float, gamma_neg: float, neg_margin: float):
    """`T.asl` as the taped chain of `scale`, `add`, `power`, `log`, `mul` and `mean_all`.

    Taking the gradient of a negative that the margin gates to 0 gives NaN
    for gamma_neg < 1, as `power`'s backward meets 0 ** (gamma_neg - 1).
    """
    from krt import tensor as T

    y = np.asarray(targets, dtype=probs.dtype)
    pos_mask = T.Tensor(y)
    neg_mask = T.Tensor(1.0 - y)
    one_minus_p = T.add(T.scale(probs, -1.0), 1.0)
    if neg_margin > 0.0:
        # negatives judged on max(p - margin, 0)
        shifted = T.add(probs, -neg_margin)
        gate = T.Tensor((shifted.data > 0.0).astype(probs.dtype))
        p_neg = T.mul(shifted, gate)
    else:
        p_neg = probs
    one_minus_p_neg = T.add(T.scale(p_neg, -1.0), 1.0)

    pos_term = T.mul(T.power(one_minus_p, gamma_pos), T.log(probs))
    neg_term = T.mul(T.power(p_neg, gamma_neg), T.log(one_minus_p_neg))
    cellwise = T.add(T.mul(pos_mask, pos_term), T.mul(neg_mask, neg_term))
    return T.scale(T.mean_all(cellwise), -1.0)


def retention_blocks_oracle(q, tokens: list, gain, bias, w_k, w_v, heads: int, scale: float):
    """`T.retention_blocks` as the taped chain ICA ran before it: one one-row `attention_block` per token, then a `concat`."""
    from krt import tensor as T

    d = w_k.shape[0]
    blocks = [T.attention_block(q, tok.reshape(1, 1, d), gain, bias, w_k, w_v, heads, scale) for tok in tokens]
    return T.concat(blocks, axis=0)


def merge_blocks_oracle(own: list, shared):
    """`T.merge_blocks` as the taped chain ICA ran before it: own holds t [1, heads, dh+1] blocks."""
    from krt import tensor as T

    t, (bsz, heads, k) = len(own), shared.shape
    rows, dh = t * bsz * heads, k - 1
    repeated = [T.repeat_rows(block, bsz) for block in own]
    pairs = T.concat([T.concat(repeated, axis=0), T.concat([shared] * t, axis=0)], axis=2)
    pairs = pairs.reshape(rows, 2, k)  # (own block, shared block) per session, image, head
    weights = T.softmax_rows(T.slice_along(pairs, 2, dh, k).reshape(rows, 2))
    return T.weighted_rows_sum(weights, T.slice_along(pairs, 2, 0, dh)).reshape(t, bsz, heads * dh)


def session_heads_oracle(per_session: list, heads: list):
    """`T.session_heads` as one `affine` per session and a `concat`: per_session holds each head's input."""
    from krt import tensor as T

    return T.concat([T.affine(x, w, b) for x, (w, b) in zip(per_session, heads)], axis=1)


def cosine_distance_oracle(x, y: np.ndarray):
    """`T.cosine_distance` as the taped chains of `losses.token_loss` ([t, B, d] x) and `losses.kd_pooled_loss` ([B, d] x)."""
    from krt import tensor as T

    if x.ndim == 3:
        m, bsz, d = y.shape
        x = T.transpose(T.slice_along(x, 0, 0, m), (1, 0, 2)).reshape(bsz, m * d)
        y = y.transpose(1, 0, 2).reshape(bsz, m * d)
    cos = T.cosine_similarity(x, T.Tensor(y))  # [B]
    return T.add(T.scale(T.mean_all(cos), -1.0), 1.0)


def per_image_product_oracle(a: np.ndarray, g: np.ndarray, bsz: int) -> np.ndarray:
    """a^T g for a:[B*L, k] and g:[B*L, m]: each image's rows' product, summed image by image."""
    a = a.reshape(bsz, -1, a.shape[1])
    g = g.reshape(bsz, -1, g.shape[1])
    total = a[0].T @ g[0]
    for i in range(1, bsz):
        total = total + a[i].T @ g[i]
    return total


def pseudo_count_oracle(scores: np.ndarray, eta: float, exclude=None) -> float:
    """Average pseudo labels per image by direct counting."""
    m = scores.shape[0]
    total = 0
    for i in range(m):
        for k in range(scores.shape[1]):
            if scores[i, k] >= eta and not (exclude is not None and k in exclude[i]):
                total += 1
    return total / m


def dpl_grid_oracle(scores: np.ndarray, mu_t: float, tolerance: float, exclude=None):
    """Exhaustive search over the 1e-2 grid; returns (best_eta, best_gap, feasible)."""
    best_eta, best_gap = None, None
    feasible = False
    for cents in range(1, 100):
        eta = cents / 100.0
        gap = abs(pseudo_count_oracle(scores, eta, exclude) - mu_t)
        if best_gap is None or gap < best_gap - 1e-12:
            best_eta, best_gap = eta, gap
        if gap <= tolerance:
            feasible = True
    return best_eta, best_gap, feasible


def average_precision_oracle(scores: np.ndarray, truths: np.ndarray) -> float:
    """AP by explicit rank enumeration (stable sort, ties keep input order)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    ap = 0.0
    for rank, idx in enumerate(order, start=1):
        if truths[idx] == 1:
            hits += 1
            ap += hits / rank
    assert hits > 0
    return ap / hits


def multilabel_metrics_oracle(scores: np.ndarray, truths: np.ndarray, threshold: float = 0.5):
    """(mAP, CF1, OF1) in percent by exhaustive per-cell counting."""
    n, k = scores.shape
    aps, f1s = [], []
    tp_all = fp_all = fn_all = 0
    for c in range(k):
        tp = fp = fn = 0
        for i in range(n):
            pred = scores[i, c] >= threshold
            pos = truths[i, c] == 1
            if pred and pos:
                tp += 1
            elif pred and not pos:
                fp += 1
            elif not pred and pos:
                fn += 1
        tp_all += tp
        fp_all += fp
        fn_all += fn
        if truths[:, c].sum() >= 1:
            aps.append(average_precision_oracle(scores[:, c], truths[:, c]))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    of1 = 2 * tp_all / (2 * tp_all + fp_all + fn_all) if 2 * tp_all + fp_all + fn_all else 0.0
    return (
        100.0 * float(np.mean(aps)),
        100.0 * float(np.mean(f1s)),
        100.0 * of1,
    )


def cosine_oracle(a: np.ndarray, b: np.ndarray) -> float:
    num = float(np.dot(a.reshape(-1), b.reshape(-1)))
    return num / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))


def dpl_walk_oracle(scores: np.ndarray, config, mu_t: float, exclude=None):
    """The threshold walk with per-image label sets rebuilt at every step.

    Thresholds are eta_init + k * eta_step for an integer k, rounded to 12
    decimals and clamped to eta_bounds. Runs on after a reversal, to the cap.
    Returns (final_eta, beta, iterations, converged, label_sets, visited),
    `visited` being every threshold evaluated, in walk order.
    """
    lo, hi = config.eta_bounds

    def labels_at(eta):
        sets = []
        for i in range(scores.shape[0]):
            picked = {k for k in range(scores.shape[1]) if scores[i, k] >= eta}
            if exclude is not None:
                picked -= set(exclude[i])
            sets.append(picked)
        return sets, sum(len(s) for s in sets) / len(sets)

    k = 0
    eta = min(max(round(config.eta_init, 12), lo), hi)
    sets, beta = labels_at(eta)
    best = (abs(beta - mu_t), eta, beta, sets)
    visited = [eta]
    iterations = 0
    while abs(beta - mu_t) > config.tolerance and iterations < config.max_iters:
        k_next = k + 1 if beta > mu_t else k - 1
        nxt = min(max(round(config.eta_init + k_next * config.eta_step, 12), lo), hi)
        if nxt == eta:
            break
        k, eta = k_next, nxt
        sets, beta = labels_at(eta)
        visited.append(eta)
        iterations += 1
        if abs(beta - mu_t) < best[0] - 1e-12:
            best = (abs(beta - mu_t), eta, beta, sets)
    converged = abs(beta - mu_t) <= config.tolerance
    if not converged:
        _, eta, beta, sets = best
    return eta, beta, iterations, converged, sets, visited


def image_oracle(spec, image_id: int, index: int, protos, affinity) -> tuple:
    """(features [h, w, c] float64, label columns) of one generated image."""
    rng = np.random.default_rng(substream_seed(spec.seed, f"image/{image_id}"))
    cap = min(spec.n_classes, spec.grid_h * spec.grid_w)
    extra = int(rng.poisson(spec.avg_labels_per_image - 1.0))
    count = 1 + min(extra, cap - 1)

    labels = [index % spec.n_classes]  # round-robin anchor: every class occurs
    while len(labels) < count:
        weights = affinity[labels].mean(axis=0).copy()
        weights[labels] = 0.0
        weights /= weights.sum()
        labels.append(int(rng.choice(spec.n_classes, p=weights)))

    cells = rng.choice(spec.grid_h * spec.grid_w, size=count, replace=False)
    feat = np.zeros((spec.grid_h, spec.grid_w, spec.channels), dtype=np.float64)
    for cls, cell in zip(labels, cells):
        feat[cell // spec.grid_w, cell % spec.grid_w] += protos[cls]
    # noise is the final draw so a noiseless rerun shares labels and cells
    if spec.noise_sigma > 0.0:
        feat += spec.noise_sigma * rng.standard_normal(feat.shape)
    return feat, labels


def split_oracle(spec, first_id: int, n: int, protos, affinity) -> tuple:
    """(ids, features, labels) of `n` generated images, one `image_oracle` call each."""
    features = np.empty((n, spec.grid_h, spec.grid_w, spec.channels), dtype=np.float32)
    labels = np.zeros((n, spec.n_classes), dtype=bool)
    for row in range(n):
        features[row], classes = image_oracle(spec, first_id + row, row, protos, affinity)
        labels[row, classes] = True
    return np.arange(first_id, first_id + n, dtype=np.uint64), features, labels
