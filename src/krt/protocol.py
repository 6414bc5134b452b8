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

The model runs in float32, chosen once here (`MODEL_DTYPE`, used by
`init_model`). Everything after init reads the dtype from the model's own
parameters, so parameters, activations, gradients, Adam moments, teacher
outputs and eval scores all stay float32. The tensor ops are dtype-generic
and keep float64 as the reference dtype of the gradient and oracle tests.

In float32, results repeat only at a fixed BLAS thread count: the GEMMs
sum in an order that depends on the thread split, and a float32 rounding
difference can flip a pseudo-label or an mAP rank. The accuracy guard's
`incr_paper` config gives last mAP 11.7548 with one OpenBLAS thread and
11.7502 with two; the float64 model gave the same mAPs at both counts.
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

# ---------------------------------------------------------------------------
# session planning


@dataclass
class SessionPlan:
    class_order: list  # all class names, lexicographic
    session_classes: list  # per session, global class indices (order = logit order)
    base_count: int
    inc_count: int
    train_indices: list = field(default_factory=list)  # per session, example indices
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

    base=0 means every session (including the first) takes `inc` classes;
    base == len(class_names) is the single-session joint arm.
    """
    names = sorted(class_names)
    total = len(names)
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
    order = {name: i for i, name in enumerate(names)}
    sessions, cursor = [], 0
    for size in chunks:
        sessions.append([order[n] for n in names[cursor : cursor + size]])
        cursor += size
    return SessionPlan(
        class_order=names,
        session_classes=sessions,
        base_count=base,
        inc_count=inc if base != total else 0,
    )


def assign_examples(plan: SessionPlan, train: Dataset, test: Dataset) -> None:
    """Fill per-session example index sets.

    A training image joins every session that owns one of its classes (its
    visible labels are restricted to that session's classes, which is what
    makes old-class labels absent). Test images go to the earliest session
    owning one of their classes, keeping the per-session test sets disjoint.
    """
    session_of = {}
    for s, classes in enumerate(plan.session_classes):
        for c in classes:
            session_of[c] = s
    plan.train_indices = [[] for _ in plan.session_classes]
    plan.test_indices = [[] for _ in plan.session_classes]
    for i, ex in enumerate(train.examples):
        for s in sorted({session_of[c] for c in ex.labels}):
            plan.train_indices[s].append(i)
    for i, ex in enumerate(test.examples):
        plan.test_indices[min(session_of[c] for c in ex.labels)].append(i)


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
    def n_outputs(self) -> int:
        return sum(h[1].size for h in self.heads)

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

    The patch extractor is one 3x3 local-mixing convolution plus gelu; its
    output width is 8x the input channels, which gives prototypes room to
    decorrelate before token projection. Position encodings are fixed
    sinusoids, scaled by 0.1 so content dominates the keys at init. Every
    tensor is MODEL_DTYPE.
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
    embeddings: list  # per session [B, d] (empty for pooled-path arms)
    pooled: Optional[Tensor]  # [B, d] global average over patch tokens


def forward_logits(model: ModelState, images: np.ndarray, attn_out: list = None) -> ForwardOut:
    """Patch extraction, projection, position encoding, then the head stack."""
    if model.session_count == 0:
        raise ValueError("model has no sessions yet")
    x = Tensor(np.asarray(images, dtype=model.dtype))
    if x.ndim == 3:
        x = x.reshape(1, *x.shape)
    bsz, h, w, c = x.shape
    if (h, w, c) != model.grid:
        raise T.TensorError(f"image grid {(h, w, c)} does not match model grid {model.grid}")
    width = model.conv_w.shape[1]
    feats = T.gelu(T.conv3x3_same(x, model.conv_w, model.conv_b))
    patches = T.affine(feats.reshape(bsz * h * w, width), model.proj_w, model.proj_b)
    patches = patches.reshape(bsz, h * w, model.d)
    patches = T.add(patches, T.repeat_rows(model.pos_enc, bsz))

    pooled = None
    if model.flags.use_ica:
        embeddings = ica_mod.forward_all_sessions(model.ica, patches, attn_out=attn_out)
        per_session = embeddings
        if model.flags.use_kd:
            pooled = _global_pool(patches)
    else:
        embeddings = []
        pooled = _global_pool(patches)
        per_session = [pooled] * model.session_count
    logits = T.concat(
        [T.affine(e, w_, b_) for e, (w_, b_) in zip(per_session, model.heads)], axis=1
    )
    return ForwardOut(logits=logits, embeddings=embeddings, pooled=pooled)


def _global_pool(patches: Tensor) -> Tensor:
    bsz, length, _ = patches.shape
    ones = Tensor(np.full((bsz, length), 1.0 / length, dtype=patches.dtype))
    return T.weighted_rows_sum(ones, patches)


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


@dataclass
class BufferEntry:
    image_id: int
    features: np.ndarray
    labels_known: set  # annotated labels accumulated across storing sessions


class RehearsalBuffer:
    """Per-class exemplar references over a deduplicated image store."""

    def __init__(self, policy: tuple = ("none",)):
        kind = policy[0]
        if kind not in ("none", "per_class", "total"):
            raise ValueError(f"unknown buffer policy {policy!r}")
        self.policy = tuple(policy)
        self.store: dict = {}  # image_id -> BufferEntry
        self.class_refs: dict = {}  # class index -> [image_id]

    def __len__(self):
        return len(self.store)

    def exemplars(self) -> list:
        return [self.store[i] for i in sorted(self.store)]

    def update(self, session_classes, items, rng: np.random.Generator) -> None:
        """Select exemplars of the just-finished session.

        items are (image_id, features, visible_labels) triples; selection is
        uniform per new class among images truly labeled with that class.
        """
        kind = self.policy[0]
        if kind == "none":
            return
        if kind == "per_class":
            quota = self.policy[1]
        else:
            total_classes = len(self.class_refs) + len(session_classes)
            quota = max(1, self.policy[1] // max(1, total_classes))
        for cls in session_classes:
            candidates = [it for it in items if cls in it[2]]
            take = min(quota, len(candidates))
            if take == 0:
                self.class_refs.setdefault(cls, [])
                continue
            picked = rng.choice(len(candidates), size=take, replace=False)
            refs = []
            for idx in sorted(int(i) for i in picked):
                image_id, feats, visible = candidates[idx]
                entry = self.store.get(image_id)
                if entry is None:
                    self.store[image_id] = BufferEntry(image_id, feats, set(visible))
                else:
                    entry.labels_known |= set(visible)
                refs.append(image_id)
            self.class_refs[cls] = refs
        if kind == "total":
            self._evict_to(self.policy[1], rng)

    def _evict_to(self, capacity: int, rng: np.random.Generator) -> None:
        over = len(self.store) - capacity
        if over <= 0:
            return
        ids = sorted(self.store)
        victims = {ids[int(i)] for i in rng.choice(len(ids), size=over, replace=False)}
        for vid in victims:
            del self.store[vid]
        for cls, refs in self.class_refs.items():
            self.class_refs[cls] = [r for r in refs if r not in victims]


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
class SessionItem:
    image_id: int
    features: np.ndarray
    visible: set  # annotated labels (session-restricted or buffer-known)
    pseudo: set = field(default_factory=set)
    is_exemplar: bool = False
    dataset_index: int = -1  # index into the train pool, -1 for pure buffer entries


@dataclass
class SessionOutcome:
    metrics: MetricsRecord
    dpl_report: Optional[PseudoLabelReport]
    pseudo_recall: Optional[float]  # vs generator truth, None when DPL off / t == 1
    snapshot: ModelState


def _session_items(plan: SessionPlan, train: Dataset, t: int, buffer: RehearsalBuffer) -> list:
    current_classes = set(plan.session_classes[t - 1])
    items = []
    for idx in plan.train_indices[t - 1]:
        ex = train.examples[idx]
        items.append(
            SessionItem(
                image_id=ex.image_id,
                features=ex.features,
                visible=ex.labels & current_classes,
                dataset_index=idx,
            )
        )
    current_ids = {it.image_id for it in items}
    for entry in buffer.exemplars():
        if entry.image_id in current_ids:
            # the image re-appears with new-session annotations; merge views
            for it in items:
                if it.image_id == entry.image_id:
                    it.visible |= entry.labels_known
                    it.is_exemplar = True
                    break
        else:
            items.append(
                SessionItem(
                    image_id=entry.image_id,
                    features=entry.features,
                    visible=set(entry.labels_known),
                    is_exemplar=True,
                )
            )
    return items


def teacher_pass(snapshot: ModelState, features: np.ndarray, chunk: int) -> tuple:
    """One tape-free pass of the frozen previous model over a session's images.

    Returns arrays indexed like `features`: old-class probabilities [N, K],
    per-session embeddings (a list of [N, d], empty on pooled-path arms) and
    pooled features [N, d] (None when the snapshot has none).
    """
    starts = range(0, len(features), chunk)
    outs = [forward_logits(snapshot, features[lo : lo + chunk]) for lo in starts]
    probs = np.concatenate([T.sigmoid(o.logits).data for o in outs])
    embeddings = [np.concatenate([e.data for e in es]) for es in zip(*(o.embeddings for o in outs))]
    pooled = None if outs[0].pooled is None else np.concatenate([o.pooled.data for o in outs])
    return probs, embeddings, pooled


def run_dpl(
    scores: np.ndarray,
    items: list,
    old_classes: list,
    n_all_classes: int,
    dpl_config: DplConfig,
) -> PseudoLabelReport:
    """Restore old-class labels onto the session's items (mutates them).

    `scores` holds the snapshot's old-class probabilities, one row per item.
    """
    col_of = {cls: k for k, cls in enumerate(old_classes)}
    exclude = [{col_of[c] for c in it.visible if c in col_of} for it in items]
    mu_t = session_target(len(old_classes), n_all_classes, dpl_config.mu)
    report = dynamic_threshold_search(scores, dpl_config, mu_t, exclude=exclude)
    for it, cols in zip(items, report.label_sets):
        it.pseudo = {old_classes[k] for k in cols}
    return report


def _targets(items, order_map: dict, n_outputs: int) -> np.ndarray:
    y = np.zeros((len(items), n_outputs))
    for i, it in enumerate(items):
        for cls in it.visible | it.pseudo:
            col = order_map.get(cls)
            if col is not None:
                y[i, col] = 1.0
    return y


def evaluate_cumulative(model: ModelState, plan: SessionPlan, t: int, test: Dataset, batch_size: int = 64) -> MetricsRecord:
    """Score the union of test sets 1..t over every class seen so far."""
    indices = []
    for s in range(t):
        indices.extend(plan.test_indices[s])
    classes = plan.classes_through(t)
    scores = []
    for lo in range(0, len(indices), batch_size):
        batch = indices[lo : lo + batch_size]
        images = test.features_array(batch)
        scores.append(T.sigmoid(forward_logits(model, images).logits).data)
    truths = test.truth_matrix(classes)[indices]
    return evaluate(EvalBatch(np.concatenate(scores, axis=0), truths), session=t)


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
    items = _session_items(plan, train, t, buffer)
    if not items:
        raise ValueError(f"session {t} has no training examples")

    classes_now = plan.classes_through(t)
    col_of = {cls: k for k, cls in enumerate(classes_now)}
    old_classes = plan.classes_through(t - 1)

    features = np.stack([it.features for it in items])
    use_dpl = model.flags.use_dpl and t >= 2
    use_token = model.flags.use_ica and t >= 2
    use_kd = model.flags.use_kd and t >= 2
    if use_dpl or use_token or use_kd:
        chunk = 4 * config.batch_size
        old_probs, prev_embeddings, prev_pooled = teacher_pass(snapshot, features, chunk)

    dpl_report = None
    if use_dpl:
        dpl_report = run_dpl(old_probs, items, old_classes, len(plan.class_order), config.dpl)

    pseudo_recall = _pseudo_recall(items, train, set(old_classes)) if dpl_report else None

    targets = _targets(items, col_of, len(classes_now))

    opt = Adam(model.trainable_parameters(), lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    shuffle_rng = rngs["shuffle"]
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(items))
        for lo in range(0, len(order), config.batch_size):
            sel = order[lo : lo + config.batch_size]
            e_prev = [e[sel] for e in prev_embeddings] if use_token else None
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
            opt.zero_grad()
            tape.clear()

    current_items = [
        (it.image_id, it.features, it.visible & set(plan.session_classes[t - 1]))
        for it in items
        if it.dataset_index >= 0
    ]
    buffer.update(plan.session_classes[t - 1], current_items, rngs["buffer"])

    record = evaluate_cumulative(model, plan, t, test)
    return SessionOutcome(
        metrics=record,
        dpl_report=dpl_report,
        pseudo_recall=pseudo_recall,
        snapshot=snapshot_model(model),
    )


def _pseudo_recall(items, train: Dataset, old_classes: set) -> Optional[float]:
    """Share of truly-present old-class signals restored as pseudo labels.

    Audited against generator ground truth on current-session images only
    (exemplars carry their old labels as annotations already).
    """
    hits = 0
    total = 0
    for it in items:
        if it.dataset_index < 0 or it.is_exemplar:
            continue
        truth_old = train.examples[it.dataset_index].labels & old_classes
        truth_old -= it.visible  # annotated ones need no restoring
        total += len(truth_old)
        hits += len(truth_old & it.pseudo)
    return hits / total if total else None


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

    if not plan.train_indices:
        assign_examples(plan, train, test)
    rngs = {name: substream_rng(master_seed, name) for name in ("init", "shuffle", "buffer")}
    model = init_model((train.grid_h, train.grid_w, train.channels), ica_config, flags, rngs["init"])
    buffer = RehearsalBuffer(flags.buffer_policy)
    snapshot = None
    outcomes = []
    for t in range(1, plan.n_sessions + 1):
        outcome = train_session(model, plan, t, train, test, buffer, snapshot, config, rngs)
        snapshot = outcome.snapshot
        outcomes.append(outcome)
    return outcomes
