"""What the benchmark wraps in `krt`, and the metrics it derives from the spans.

Two target sets. `BOUNDARY` holds the session and step boundaries the
end-to-end metrics need: the run, each session, its evaluation, each
model forward (sorted into student, teacher, DPL scoring and eval), and
each optimizer step. `LAYERS` adds one wrapper per layer call: data
generation, snapshots, buffer updates, the DPL walk, the losses, ICA,
every tensor op, tape backward and tensor creation. Names are patched
where callers look them up (e.g. `krt.protocol.forward_logits`, not
`krt.protocol`'s source module), so nothing under `src/` changes.

Per-op backward time is not visible from here: each op's backward is a
closure private to the tape record, so only the whole `Tape.backward`
is timed (`tensor.backward_s`).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import krt.cli as krt_cli
import krt.dpl as krt_dpl
import krt.ica as krt_ica
import krt.optim as krt_optim
import krt.protocol as krt_protocol
import krt.tensor as krt_tensor

from tracer import Target, Tracer

SESSION_SPAN = "protocol.session.t"
EVAL_SPAN = "protocol.evaluate_cumulative"
DPL_SPAN = "protocol.run_dpl"
STEP_SPAN = "optim.adam_step"
MAX_SESSIONS = 8  # protocol.session_train_s.t1 .. t8

TENSOR_OPS = (
    "conv3x3_same", "affine", "matmul", "layer_norm", "gelu", "softmax_rows",
    "weighted_rows_sum", "slice_along", "concat", "repeat_rows", "transpose",
    "reshape", "add", "scale", "sigmoid", "cosine_similarity",
    "mul", "power", "log", "mean_all",
)
FORWARD_KINDS = ("student_fwd", "teacher_fwd", "dpl_score_fwd", "eval_fwd")


# ---------------------------------------------------------------------------
# hooks


def _session_enter(tr: Tracer, args) -> str:
    # train_session(model, plan, t, train, test, buffer, snapshot, config, rngs)
    tr.state["snapshot"] = args[6]
    return f"{SESSION_SPAN}{args[2]}"


def _session_leave(tr: Tracer, args, outcome) -> None:
    tr.state.setdefault("outcomes", []).append(outcome.metrics.to_dict())


def _forward_enter(tr: Tracer, args) -> str:
    if tr.active[EVAL_SPAN]:
        kind = "eval_fwd"
    elif tr.active[DPL_SPAN]:
        kind = "dpl_score_fwd"
    elif args[0] is tr.state.get("snapshot"):
        kind = "teacher_fwd"
    else:
        kind = "student_fwd"
    span = f"protocol.{kind}"
    tr.counters[f"{span}.rows"] += len(args[1])
    return span


def _ica_enter(tr: Tracer, args) -> str:
    patches = args[2]  # ica_forward(state, session_index, patches)
    tr.counters["ica.embeddings"] += patches.shape[0] if patches.ndim == 3 else 1
    return "ica.forward"


def _tape_enter(tr: Tracer, args) -> str:
    records = len(args[0])
    tr.counters["tensor.tape_records"] += records
    tr.state["tape_peak"] = max(tr.state.get("tape_peak", 0), records)
    return "tensor.backward"


def _walk_leave(tr: Tracer, args, report) -> None:
    tr.counters["dpl.walks"] += 1
    tr.counters["dpl.iterations"] += report.iterations
    tr.counters["dpl.converged"] += bool(report.converged)


BOUNDARY = (
    Target(krt_cli, "run", "cli.run"),
    Target(krt_protocol, "train_session", enter=_session_enter, leave=_session_leave),
    Target(krt_protocol, "run_dpl", DPL_SPAN),
    Target(krt_protocol, "evaluate_cumulative", EVAL_SPAN),
    Target(krt_protocol, "forward_logits", enter=_forward_enter),
    Target(krt_optim.Adam, "step", STEP_SPAN),
)

LAYERS = (
    Target(krt_cli, "generate", "datagen.generate"),
    Target(krt_cli, "_write_outputs", "cli.write_outputs"),
    Target(krt_protocol, "snapshot_model", "protocol.snapshot"),
    Target(krt_protocol.RehearsalBuffer, "update", "protocol.buffer_update"),
    Target(krt_protocol, "backward", "protocol.backward"),
    Target(krt_protocol, "dynamic_threshold_search", "dpl.walk", leave=_walk_leave),
    Target(krt_dpl, "generate_pseudo_labels", "dpl.threshold_eval"),
    Target(krt_protocol, "evaluate", "metrics.evaluate"),
    Target(krt_protocol, "asl_loss", "losses.asl"),
    Target(krt_protocol, "token_loss", "losses.token"),
    Target(krt_protocol, "total_loss", "losses.combine"),
    Target(krt_ica, "forward_all_sessions", "ica.forward_all_sessions"),
    Target(krt_ica, "ica_forward", enter=_ica_enter),
    Target(krt_tensor.Tape, "backward", enter=_tape_enter),
    Target(krt_tensor.Tensor, "__init__"),  # count only: every tensor is finite-checked
) + tuple(Target(krt_tensor, op, f"tensor.op.{op}") for op in TENSOR_OPS)


# ---------------------------------------------------------------------------
# one run


@dataclass
class RunSample:
    """One `krt.cli.run` call: its checks and the timings read from its spans."""

    seed: int
    attempted: int
    failed: int
    problems: list
    aggregates: dict = None
    sessions: list = None
    pseudo_recall: list = None
    run_s: float = math.nan
    setup_s: float = math.nan
    train_s: float = math.nan
    train_items: int = 0
    eval_s: float = math.nan
    eval_images: int = 0
    step_gaps_s: list = field(default_factory=list)  # per session, its step gaps


class _SetupDone(Exception):
    pass


def _stop_at_first_session(*args, **kwargs):
    raise _SetupDone


def measure_setup(cfg) -> float:
    """Seconds from the start of `krt.cli.run` to its first `train_session` call."""
    original = krt_protocol.train_session
    krt_protocol.train_session = _stop_at_first_session
    try:
        t0 = perf_counter()
        krt_cli.run(cfg)
    except _SetupDone:
        return perf_counter() - t0
    finally:
        krt_protocol.train_session = original
    raise RuntimeError("krt.cli.run returned without calling train_session")


def _percentages(values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 100.0 for v in values)


def _valid_metrics(rec: dict, session: int) -> bool:
    values = [rec.get("map"), rec.get("cf1"), rec.get("of1")]
    values += [ap for ap in rec.get("per_class_ap", []) if ap is not None]
    return rec.get("session") == session and _percentages(values)


def check_run(result, outcomes: list, out_dir: str, planned: int, error: str = None):
    """(failed sessions, problems) for one run of `planned` sessions.

    A session counts as done when its `train_session` returned metrics that
    are finite and within [0, 100] and, when the run returned, the
    `RunResult` and `results.json` hold that same record. A raised run
    fails the session that raised and every session after it.
    """
    problems = [f"run raised {error}"] if error else []
    written = None
    if result is not None:
        try:
            with open(os.path.join(out_dir, "results.json")) as fh:
                written = json.load(fh)
        except (OSError, ValueError) as e:
            problems.append(f"results.json unreadable: {e}")
            written = {}
        if written.get("aggregates") != result.aggregates:
            problems.append("results.json aggregates differ from the RunResult")
        if not _percentages(result.aggregates.values()):
            problems.append(f"aggregates out of range: {result.aggregates}")
        if len(result.sessions) != planned:
            problems.append(f"{len(result.sessions)} sessions reported, {planned} planned")
    done = 0
    for i, rec in enumerate(outcomes[:planned]):
        ok = _valid_metrics(rec, i + 1)
        if ok and result is not None:
            ok = (
                i < len(result.sessions)
                and result.sessions[i] == rec
                and i < len(written.get("sessions", []))
                and written["sessions"][i] == rec
            )
        if ok:
            done += 1
        else:
            problems.append(f"session {i + 1} failed its check")
    return planned - done, problems


def run_once(cfg, targets, planned: int):
    """Run `krt.cli.run(cfg)` under a tracer of `targets`; return (sample, tracer)."""
    shutil.rmtree(cfg.out, ignore_errors=True)
    tracer = Tracer(targets)
    result, error = None, None
    with tracer:
        try:
            result = krt_cli.run(cfg)
        except Exception as e:  # noqa: BLE001 - a failing run is counted, not fatal
            error = f"{type(e).__name__}: {e}"
    outcomes = tracer.state.get("outcomes", [])
    failed, problems = check_run(result, outcomes, cfg.out, planned, error)
    leftovers = tracer.leftovers()
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")
    shutil.rmtree(cfg.out, ignore_errors=True)

    sample = RunSample(seed=cfg.seed, attempted=planned, failed=failed, problems=problems)
    if result is not None:
        sample.aggregates = dict(result.aggregates)
        sample.sessions = result.sessions
        sample.pseudo_recall = result.pseudo_recall
    _read_timings(tracer, sample)
    return sample, tracer


def _duration(tr: Tracer, i: int) -> float:
    return tr.span_end[i] - tr.span_start[i]


def session_spans(tr: Tracer) -> list:
    """Indices of the session spans, in start order."""
    ids = {nid for nid, name in enumerate(tr.names) if name.startswith(SESSION_SPAN)}
    return [i for i, nid in enumerate(tr.span_name) if nid in ids]


def _eval_in_session(tr: Tracer) -> dict:
    """session span index -> seconds of evaluate_cumulative inside it."""
    out = {}
    for i in tr.spans(EVAL_SPAN):
        parent = tr.span_parent[i]
        out[parent] = out.get(parent, 0.0) + _duration(tr, i)
    return out


def _read_timings(tr: Tracer, sample: RunSample) -> None:
    runs = tr.spans("cli.run")
    sessions = session_spans(tr)
    if not runs or not sessions:
        return
    run = runs[0]
    sample.run_s = _duration(tr, run)
    sample.setup_s = tr.span_start[sessions[0]] - tr.span_start[run]
    eval_in = _eval_in_session(tr)
    sample.eval_s = sum(eval_in.values())
    sample.train_s = sum(_duration(tr, s) for s in sessions) - sample.eval_s
    sample.train_items = tr.counters["protocol.student_fwd.rows"]
    sample.eval_images = tr.counters["protocol.eval_fwd.rows"]
    # gaps between consecutive step returns within a session; the first
    # step of a session has no predecessor and so is excluded
    ends = {s: [] for s in sessions}
    for i in tr.spans(STEP_SPAN):
        ends[tr.span_parent[i]].append(tr.span_end[i])
    sample.step_gaps_s = [[b - a for a, b in zip(e, e[1:])] for e in ends.values()]


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method, q in 1..99)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, sample: RunSample) -> dict:
    """Per-layer metrics of one traced run."""
    s, c, n = tr.total_s, tr.calls, tr.counters
    m = {"datagen.generate_s": s["datagen.generate"]}
    for kind in FORWARD_KINDS:
        m[f"protocol.{kind}_s"] = s[f"protocol.{kind}"]
    for kind in ("student_fwd", "teacher_fwd", "eval_fwd"):
        m[f"protocol.{kind}_calls"] = c[f"protocol.{kind}"]
    m["protocol.snapshot_s"] = s["protocol.snapshot"]
    m["protocol.buffer_update_s"] = s["protocol.buffer_update"]
    eval_in = _eval_in_session(tr)
    per_t = {}
    for i in session_spans(tr):
        t = tr.names[tr.span_name[i]][len(SESSION_SPAN):]
        per_t[t] = per_t.get(t, 0.0) + _duration(tr, i) - eval_in.get(i, 0.0)
    for t in range(1, MAX_SESSIONS + 1):
        m[f"protocol.session_train_s.t{t}"] = per_t.get(str(t), 0.0)

    m["ica.forward_s"] = s["ica.forward"]
    m["ica.forward_calls"] = c["ica.forward"]
    m["ica.embeddings"] = n["ica.embeddings"]
    m["ica.us_per_embedding"] = 1e6 * s["ica.forward"] / n["ica.embeddings"] if n["ica.embeddings"] else 0.0

    for op in TENSOR_OPS:
        m[f"tensor.op.{op}.s"] = tr.self_s[f"tensor.op.{op}"]
        m[f"tensor.op.{op}.calls"] = c[f"tensor.op.{op}"]
    m["tensor.tensors_created"] = tr.entered["krt.tensor.Tensor.__init__"]
    m["tensor.backward_s"] = s["tensor.backward"]
    backwards = c["tensor.backward"]
    m["tensor.tape_records_per_step"] = n["tensor.tape_records"] / backwards if backwards else 0.0
    m["tensor.tape_records_peak"] = tr.state.get("tape_peak", 0)

    m["losses.asl_s"] = s["losses.asl"]
    m["losses.token_s"] = s["losses.token"]
    m["losses.total_s"] = s["losses.asl"] + s["losses.token"] + s["losses.combine"]
    m["optim.adam_s"] = s[STEP_SPAN]
    m["optim.adam_calls"] = c[STEP_SPAN]

    m["dpl.walk_s"] = s["dpl.walk"]
    m["dpl.walk_iterations"] = n["dpl.iterations"]
    m["dpl.threshold_evals"] = c["dpl.threshold_eval"]
    m["dpl.converged_share"] = n["dpl.converged"] / n["dpl.walks"] if n["dpl.walks"] else 0.0
    recalls = [r for r in sample.pseudo_recall or [] if r is not None]
    m["dpl.pseudo_recall_mean"] = statistics.fmean(recalls) if recalls else 0.0

    m["metrics.evaluate_s"] = s["metrics.evaluate"]
    m["cli.write_outputs_s"] = s["cli.write_outputs"]
    return m
