"""The incremental-session state machine.

A run partitions the class universe into disjoint per-session sets, then
trains one model through the sessions: expand the classifier and the token
bank, restore old-class labels with the dynamic pseudo-labeler, fit on the
asymmetric loss (plus the token-retention term from session two onward),
optionally replay buffered exemplars, and evaluate on the union of all
test sets seen so far. Snapshots of the previous session's model drive
both pseudo-labeling and the retention losses and are never mutated.

Method arms differ only in flags: use_dpl, use_ica, use_kd, and the
buffer policy.

Labels stay in the datasets' boolean label matrices throughout. A session
trains on train rows (`_session_rows`): their visible labels, its targets,
the DPL exclusions and pseudo labels are all row and column slices of
[images, classes] masks, and the buffer keeps train rows with the label
mask each was stored with.

Inference has one path, `infer`. The previous model's pass over a
session's images (which feeds DPL and the retention losses) and the
scoring of the test union both run tape-free `forward_logits` in chunks of
`INFER_CHUNK` images, whatever the training batch size. Scores depend on
the chunk size in their last float32 bits, and mAP can move with them.
OpenBLAS's sgemm rounds the rows of a call with M*N*K <= 10^6 differently
from the same rows of a larger call (likely its small-matrix kernel). At
the paper shape that holds for the score product of `T.attention_block`,
[B*196, 128] @ [128, 8], in chunks of up to 4 images, and for ICA's MLP
product [B, 512] @ [512, 128] in chunks of up to 15; the stem's products
give the same rows at every chunk size. So a chunk size moves the scores
of the images it moves into or out of such a small last chunk. Of 200
images, chunks of 64, 32 and 16 all end with the same 8 and chunks of 20
with none: at the paper shape, chunks of 20 change the scores of those 8
images and chunks of 16 or 32 change none. So the chunk is one constant,
and it stays 64: a chunk of 20 moved `joint` mAPs in their last digits on
5 of 20 seeds and ran no faster. The chunk does not set the memory of the
patch side: tape-free, `T.attention_block` (ICA arms) and the global pool
`T.weighted_rows_sum` stream the stem by image blocks of about 800 KB of
rows on the calling thread, bit for bit (`krt.tensor`). A 64-image
paper-shape forward peaks at about 3 MiB of numpy arrays on either path,
against 15.5–16 MiB when the chunk's patch arrays were formed whole.

The model runs in float32, chosen once here (`MODEL_DTYPE`, used by
`init_model`). Everything after init reads the dtype from the model's own
parameters, so parameters, activations, gradients, Adam moments, teacher
outputs and eval scores all stay float32. The tensor ops are dtype-generic
and keep float64 as the reference dtype of the gradient and oracle tests.

Results are meant not to depend on the BLAS thread count: a GEMM splits a
long sum by thread, and a float32 rounding difference can flip a
pseudo-label or an mAP rank. So the weight gradients that sum over all
B*h*w patch rows (`T.attention_block`'s key gradient, `T.patch_embed`'s
two) take one product per image, then sum over images. On a 2-core Xeon
the three benchmark workloads at seed 0 give equal `results.json` at one
and two OpenBLAS threads; a test holds guard-size `incr_paper` to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import ica as ica_mod
from . import tensor as T
from .datagen import Dataset
from .dpl import DplConfig, PseudoLabelReport, dynamic_threshold_search, session_target
from .ica import IcaConfig, IcaState, tensor_fields
from .losses import LossConfig, asl_loss, kd_pooled_loss, token_loss, total_loss
from .metrics import EvalBatch, MetricsRecord, evaluate
from .optim import Adam
from .tensor import Tape, Tensor, backward

MODEL_DTYPE = np.float32
INFER_CHUNK = 64  # images per tape-free forward; see the module docstring


class DataError(ValueError):
    """Input data that cannot be run as given (`krt` exits 3)."""


# ---------------------------------------------------------------------------
# session planning


@dataclass
class SessionPlan:
    class_order: list  # all class names, lexicographic
    session_classes: list  # per session, label columns (order = logit order)
    train_indices: list = field(default_factory=list)  # per session, train rows
    test_indices: list = field(default_factory=list)

    @property
    def n_sessions(self) -> int:
        return len(self.session_classes)

    def classes_through(self, t: int) -> list:
        out = []
        for s in range(t):
            out.extend(self.session_classes[s])
        return out


def build_plan(class_names: list, base: int, inc: int) -> SessionPlan:
    """Partition lexicographically sorted classes into session chunks.

    Each session lists its classes as positions in `class_names`, which are
    the dataset's label columns. base=0 means every session (including the
    first) takes `inc` classes; base == len(class_names) is the
    single-session joint arm.
    """
    names = sorted(class_names)
    total = len(names)
    if len(set(names)) != total:
        raise ValueError("class names repeat")
    if base < 0 or base > total:
        raise ValueError(f"base {base} outside 0..{total}")
    rest = total - base
    if base == total:
        chunks = [total]
    else:
        if inc <= 0:
            raise ValueError("inc must be positive")
        if rest % inc != 0:
            raise ValueError(f"{rest} remaining classes not divisible by inc {inc}")
        chunks = ([base] if base > 0 else []) + [inc] * (rest // inc)
    column = {name: k for k, name in enumerate(class_names)}
    sessions, cursor = [], 0
    for size in chunks:
        sessions.append([column[n] for n in names[cursor : cursor + size]])
        cursor += size
    return SessionPlan(class_order=names, session_classes=sessions)


def assign_examples(plan: SessionPlan, train: Dataset, test: Dataset) -> None:
    """Fill the per-session row lists, each in ascending row order.

    A training image joins every session that owns one of its classes (its
    visible labels are restricted to that session's classes, which is what
    makes old-class labels absent). Test images go to the earliest session
    owning one of their classes, keeping the per-session test sets disjoint.
    """
    plan.train_indices = [
        np.flatnonzero(train.labels[:, classes].any(axis=1)).tolist()
        for classes in plan.session_classes
    ]
    owns = np.stack([test.labels[:, classes].any(axis=1) for classes in plan.session_classes])
    first = owns.argmax(axis=0)
    plan.test_indices = [np.flatnonzero(first == s).tolist() for s in range(plan.n_sessions)]


# ---------------------------------------------------------------------------
# model


@dataclass
class ArmFlags:
    use_dpl: bool = True
    use_ica: bool = True
    use_kd: bool = False
    buffer_policy: tuple = ("none",)  # ("none",) | ("per_class", k) | ("total", m)


@dataclass
class ModelState:
    conv_w: Tensor
    conv_b: Tensor
    proj_w: Tensor
    proj_b: Tensor
    pos_enc: Tensor  # constant [1, L, d]
    ica: Optional[IcaState]
    heads: list  # per session (w [d, N_t], b [N_t])
    flags: ArmFlags
    grid: tuple  # (h, w, c)
    d: int

    @property
    def session_count(self) -> int:
        return len(self.heads)

    @property
    def dtype(self):
        return self.proj_w.dtype

    def trainable_parameters(self) -> list:
        return [t for _, t in self.named_parameters() if t.requires_grad]

    def named_parameters(self) -> list:
        named = [(name, t) for name, t in tensor_fields(self) if name != "pos_enc"]
        if self.ica is not None:
            named += [(f"ica.{name}", t) for name, t in tensor_fields(self.ica)]
            named += [(f"ica.kr.{i}", kr) for i, kr in enumerate(self.ica.kr_tokens)]
        for i, (w, b) in enumerate(self.heads):
            named += [(f"head.{i}.w", w), (f"head.{i}.b", b)]
        return named


def sinusoidal_positions(length: int, d: int) -> np.ndarray:
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(d)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, (2.0 * (i // 2)) / d)
    enc = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return enc


def init_model(
    grid: tuple,
    ica_config: IcaConfig,
    flags: ArmFlags,
    rng: np.random.Generator,
) -> ModelState:
    """Fresh model with no sessions.

    The patch stem is one op, `T.patch_embed`: a 3x3 local-mixing
    convolution plus gelu, whose output width is 8x the input channels,
    which gives prototypes room to decorrelate before token projection;
    then the projection to d and the position code. Position encodings are
    fixed sinusoids, scaled by 0.1 so content dominates the keys at init.
    Every tensor is MODEL_DTYPE.
    """
    h, w, c = grid
    d = ica_config.d
    width = 8 * c
    dt = MODEL_DTYPE
    model = ModelState(
        conv_w=T.uniform_param(rng, (9 * c, width), dtype=dt),
        conv_b=T.uniform_param(rng, (width,), fan_in=9 * c, dtype=dt),
        proj_w=T.uniform_param(rng, (width, d), dtype=dt),
        proj_b=T.uniform_param(rng, (d,), fan_in=width, dtype=dt),
        pos_enc=Tensor(0.1 * sinusoidal_positions(h * w, d)[None, :, :], dtype=dt),
        ica=ica_mod.init_ica(ica_config, rng, dtype=dt) if flags.use_ica else None,
        heads=[],
        flags=flags,
        grid=grid,
        d=d,
    )
    return model


def expand_for_session(model: ModelState, n_new_classes: int, rng: np.random.Generator) -> None:
    """Session start: new retention token (ICA arms) and a new head chunk."""
    if model.ica is not None:
        ica_mod.add_session(model.ica, rng)
    model.heads.append(
        (
            T.uniform_param(rng, (model.d, n_new_classes), dtype=model.dtype),
            T.uniform_param(rng, (n_new_classes,), fan_in=model.d, dtype=model.dtype),
        )
    )


@dataclass
class ForwardOut:
    logits: Tensor  # [B, N]
    embeddings: Optional[Tensor]  # [t, B, d], session s+1's at [s]; None on pooled-path arms
    pooled: Optional[Tensor]  # [B, d] global average over patch tokens


def forward_logits(model: ModelState, images: np.ndarray) -> ForwardOut:
    """The patch stem, the ICA or pooled path, then `T.session_heads`.

    Both paths take the stem's arguments (`T.Stem`): taped, they run
    `T.patch_embed`; tape-free, they stream the stem by image blocks and
    never form the [B, h*w, d] patch rows.
    """
    if model.session_count == 0:
        raise ValueError("model has no sessions yet")
    x = Tensor(np.asarray(images, dtype=model.dtype))
    if x.shape[1:] != model.grid:
        raise T.TensorError(f"image grid {x.shape[1:]} does not match model grid {model.grid}")
    stem = T.Stem(x, model.conv_w, model.conv_b, model.proj_w, model.proj_b, model.pos_enc)

    embeddings = pooled = None
    if model.flags.use_ica:
        embeddings = ica_mod.forward_all_sessions(model.ica, stem)
    if model.flags.use_kd or not model.flags.use_ica:
        n = x.shape[1] * x.shape[2]  # the global average over patch rows
        pooled = T.weighted_rows_sum(Tensor(np.full((x.shape[0], n), 1.0 / n, dtype=model.dtype)), stem)
    logits = T.session_heads(pooled if embeddings is None else embeddings, model.heads)
    return ForwardOut(logits=logits, embeddings=embeddings, pooled=pooled)


def snapshot_model(model: ModelState) -> ModelState:
    """Deep immutable copy; every parameter is a fresh constant tensor."""
    def const(t: Tensor) -> Tensor:
        return Tensor(t.data.copy())

    def copy_of(record, **rest):
        return replace(record, **{name: const(t) for name, t in tensor_fields(record)}, **rest)

    snap_ica = None
    if model.ica is not None:
        snap_ica = copy_of(model.ica, kr_tokens=[const(kr) for kr in model.ica.kr_tokens])
    return copy_of(
        model,
        ica=snap_ica,
        heads=[(const(w), const(b)) for w, b in model.heads],
        flags=replace(model.flags),
    )


# ---------------------------------------------------------------------------
# rehearsal buffer


class RehearsalBuffer:
    """Exemplars as train rows, each with the labels it was stored with."""

    def __init__(self, policy: tuple = ("none",)):
        kind = policy[0]
        if kind not in ("none", "per_class", "total"):
            raise ValueError(f"unknown buffer policy {policy!r}")
        self.policy = tuple(policy)
        self.known: dict = {}  # train row -> [K] bool, its labels from every session that stored it
        self.classes_seen = 0  # classes of the sessions stored so far

    def __len__(self):
        return len(self.known)

    def update(self, session_classes, index, visible: np.ndarray, rng: np.random.Generator) -> None:
        """Select exemplars of the just-finished session.

        `index` are the session's own train rows and `visible` [n, K] their
        annotated labels; an exemplar stores its `session_classes` columns.
        Selection is uniform per new class among the rows labeled with it.
        """
        kind = self.policy[0]
        if kind == "none":
            return
        self.classes_seen += len(session_classes)
        if kind == "per_class":
            quota = self.policy[1]
        else:
            quota = max(1, self.policy[1] // max(1, self.classes_seen))
        columns = np.zeros(visible.shape[1], dtype=bool)
        columns[session_classes] = True
        for cls in session_classes:
            candidates = np.flatnonzero(visible[:, cls])
            take = min(quota, len(candidates))
            if take == 0:
                continue
            for j in candidates[rng.choice(len(candidates), size=take, replace=False)]:
                row, labels = int(index[j]), visible[j] & columns
                self.known[row] = self.known[row] | labels if row in self.known else labels
        if kind == "total":
            self._evict_to(self.policy[1], rng)

    def _evict_to(self, capacity: int, rng: np.random.Generator) -> None:
        over = len(self.known) - capacity
        if over <= 0:
            return
        rows = sorted(self.known)
        for i in rng.choice(len(rows), size=over, replace=False):
            del self.known[rows[int(i)]]


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    loss: LossConfig = field(default_factory=LossConfig)
    dpl: DplConfig = field(default_factory=DplConfig)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(
                f"epochs {self.epochs} and batch_size {self.batch_size} must be positive"
            )
        if self.lr < 0 or not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(
                f"lr {self.lr} must be non-negative, "
                f"beta1 {self.beta1} and beta2 {self.beta2} in [0, 1)"
            )


@dataclass
class SessionOutcome:
    metrics: MetricsRecord
    dpl_report: Optional[PseudoLabelReport]
    pseudo_recall: Optional[float]  # vs generator truth, None when DPL off / t == 1
    snapshot: ModelState


def _session_rows(plan: SessionPlan, train: Dataset, t: int, buffer: RehearsalBuffer) -> tuple:
    """Session t's training rows: (train index [n], visible labels [n, K], exemplar [n]).

    The session's own images come first, in row order, labeled with its
    classes only. A buffered image adds the labels it was stored with and
    counts as an exemplar; buffered images the session lacks follow, in row
    order.
    """
    own = np.asarray(plan.train_indices[t - 1], dtype=np.intp)
    stored = np.array(sorted(buffer.known), dtype=np.intp)
    index = np.concatenate([own, stored[~np.isin(stored, own)]])
    current = np.zeros(len(train.class_names), dtype=bool)
    current[plan.session_classes[t - 1]] = True
    visible = train.labels[index] & current
    exemplar = np.isin(index, stored)
    for row in np.flatnonzero(exemplar):
        visible[row] |= buffer.known[index[row]]
    return index, visible, exemplar


def infer(model: ModelState, features: np.ndarray) -> tuple:
    """Tape-free forwards of `model` over `features`, `INFER_CHUNK` images at a time.

    Returns arrays whose image axis is indexed like `features`:
    probabilities [N, K], the embedding stack [t, N, d] (None on pooled-path
    arms; images are its axis 1) and pooled features [N, d] (or None).
    """
    starts = range(0, len(features), INFER_CHUNK)
    outs = [forward_logits(model, features[lo : lo + INFER_CHUNK]) for lo in starts]
    probs = np.concatenate([T.sigmoid(o.logits).data for o in outs])

    def joined(parts, axis=0):
        return None if parts[0] is None else np.concatenate([p.data for p in parts], axis=axis)

    return probs, joined([o.embeddings for o in outs], axis=1), joined([o.pooled for o in outs])


def run_dpl(scores: np.ndarray, exclude: np.ndarray, n_all_classes: int, config: DplConfig):
    """The pseudo-labeler over one [images, old classes] score matrix.

    `exclude` marks the cells an image is annotated with already; those
    are never issued as pseudo labels. Returns the walk's report, whose
    `labels` mask has the shape of `scores`.
    """
    mu_t = session_target(np.shape(scores)[1], n_all_classes, config.mu)
    return dynamic_threshold_search(scores, config, mu_t, exclude=exclude)


def evaluate_cumulative(model: ModelState, plan: SessionPlan, t: int, test: Dataset) -> MetricsRecord:
    """Score the union of test sets 1..t over every class seen so far (see `infer`)."""
    indices = []
    for s in range(t):
        indices.extend(plan.test_indices[s])
    probs, _, _ = infer(model, test.features[indices])
    truths = test.labels[np.ix_(indices, plan.classes_through(t))]
    return evaluate(EvalBatch(probs, truths), session=t)


def train_session(
    model: ModelState,
    plan: SessionPlan,
    t: int,
    train: Dataset,
    test: Dataset,
    buffer: RehearsalBuffer,
    snapshot: Optional[ModelState],
    config: TrainConfig,
    rngs: dict,
) -> SessionOutcome:
    """Run one full session and return its outcome (model/buffer mutate in place)."""
    if not 1 <= t <= plan.n_sessions:
        raise ValueError(f"session {t} outside plan with {plan.n_sessions} sessions")
    if t >= 2 and snapshot is None and (model.flags.use_dpl or model.flags.use_ica or model.flags.use_kd):
        raise ValueError("sessions after the first need the previous model snapshot")

    expand_for_session(model, len(plan.session_classes[t - 1]), rngs["init"])
    index, visible, exemplar = _session_rows(plan, train, t, buffer)

    old_classes = plan.classes_through(t - 1)
    features = train.features[index]
    use_dpl = model.flags.use_dpl and t >= 2
    use_token = model.flags.use_ica and t >= 2
    use_kd = model.flags.use_kd and t >= 2
    if use_dpl or use_token or use_kd:
        old_probs, prev_embeddings, prev_pooled = infer(snapshot, features)

    # old classes are the first columns of the targets, in logit order
    targets = visible[:, plan.classes_through(t)]
    dpl_report = pseudo_recall = None
    if use_dpl:
        dpl_report = run_dpl(old_probs, visible[:, old_classes], len(plan.class_order), config.dpl)
        targets[:, : len(old_classes)] |= dpl_report.labels
        # old labels the session's own images lack; exemplars carry theirs as annotations
        lost = train.labels[np.ix_(index, old_classes)] & ~exemplar[:, None]
        if lost.any():
            pseudo_recall = int((lost & dpl_report.labels).sum()) / int(lost.sum())

    opt = Adam(model.trainable_parameters(), lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    shuffle_rng = rngs["shuffle"]
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(index))
        for batch, lo in enumerate(range(0, len(order), config.batch_size), 1):
            sel = order[lo : lo + config.batch_size]
            e_prev = prev_embeddings[:, sel] if use_token else None
            try:
                with Tape() as tape:
                    out = forward_logits(model, features[sel])
                    loss = total_loss(
                        asl_loss(T.sigmoid(out.logits), targets[sel], config.loss),
                        token_loss(e_prev, out.embeddings) if use_token else None,
                        config.loss,
                        session=t,
                    )
                    if use_kd:
                        loss = T.add(loss, kd_pooled_loss(prev_pooled[sel], out.pooled))
                backward(loss)
                opt.step()
            except (ValueError, ArithmeticError) as e:  # a diverging step: say where it diverged
                raise type(e)(f"session {t}, epoch {epoch}, batch {batch}: {e}") from e
            opt.zero_grad()
            tape.clear()

    n_own = len(plan.train_indices[t - 1])
    buffer.update(plan.session_classes[t - 1], index[:n_own], visible[:n_own], rngs["buffer"])

    record = evaluate_cumulative(model, plan, t, test)
    return SessionOutcome(
        metrics=record,
        dpl_report=dpl_report,
        pseudo_recall=pseudo_recall,
        snapshot=snapshot_model(model),
    )


# ---------------------------------------------------------------------------
# full incremental run


def run_incremental(
    train: Dataset,
    test: Dataset,
    plan: SessionPlan,
    flags: ArmFlags,
    ica_config: IcaConfig,
    config: TrainConfig,
    master_seed: int,
) -> list:
    """Train through every session of the plan; returns per-session outcomes."""
    from .seeds import substream_rng

    assign_examples(plan, train, test)
    # test rows go to the first session owning one of their classes, so
    # session 1's rows make every later test union non-empty
    for t, rows in enumerate(plan.train_indices, start=1):
        if not rows:
            raise DataError(f"session {t} has no train rows: no train image carries its classes")
    if not plan.test_indices[0]:
        raise DataError("session 1 has no test rows: no test image carries its classes")
    rngs = {name: substream_rng(master_seed, name) for name in ("init", "shuffle", "buffer")}
    model = init_model(train.features.shape[1:], ica_config, flags, rngs["init"])
    buffer = RehearsalBuffer(flags.buffer_policy)
    snapshot = None
    outcomes = []
    for t in range(1, plan.n_sessions + 1):
        outcome = train_session(model, plan, t, train, test, buffer, snapshot, config, rngs)
        snapshot = outcome.snapshot
        outcomes.append(outcome)
    return outcomes
