"""Multi-label class-incremental learning at desk scale.

Training sessions introduce disjoint class sets; old-class labels are
restored by dynamic pseudo-labeling and old knowledge is carried by
per-session retention tokens attached to a shared cross-attention block.
Everything runs on a small numpy autodiff core.
"""

from ._version import VERSION as __version__

from .tensor import Tensor, Tape, backward
from .dpl import DplConfig, PseudoLabelReport, dynamic_threshold_search, session_target
from .ica import IcaConfig, IcaState
from .losses import LossConfig, asl_loss, token_loss, kd_pooled_loss, total_loss
from .metrics import MetricsRecord, average_precision, evaluate, aggregate
from .datagen import GenSpec, LabeledExample, Dataset, generate
from .protocol import SessionPlan, ModelState, RehearsalBuffer, build_plan, train_session
from .cli import RunConfig, RunResult, run

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "DplConfig",
    "PseudoLabelReport",
    "dynamic_threshold_search",
    "session_target",
    "IcaConfig",
    "IcaState",
    "LossConfig",
    "asl_loss",
    "token_loss",
    "kd_pooled_loss",
    "total_loss",
    "MetricsRecord",
    "average_precision",
    "evaluate",
    "aggregate",
    "GenSpec",
    "LabeledExample",
    "Dataset",
    "generate",
    "SessionPlan",
    "ModelState",
    "RehearsalBuffer",
    "build_plan",
    "train_session",
    "RunConfig",
    "RunResult",
    "run",
]
