"""Weakly supervised, event-specific video highlight detection via
multiple-instance ranking over pre-extracted segment features."""

from .data import (
    Bag,
    DatasetIndex,
    SyntheticSpec,
    VideoRecord,
    gen_synthetic,
    read_feature_file,
    read_manifest,
    sample_bag,
    split_videos,
    write_feature_file,
)
from .losses import LossBreakdown, backward, bce, mm_ranking_loss, total_loss, variant_ranking_loss
from .metrics import (
    EvalReport,
    ScoredSegment,
    ap_at_k,
    average_precision,
    evaluate_map,
    evaluate_top5_map,
    extract_highlights,
)
from .model import (
    Ablation,
    BagForward,
    ModelConfig,
    ModelParams,
    StackedForward,
    forward_bag,
    forward_stacked,
    init_params,
    score_video,
)
from .train import (
    Checkpoint,
    OptimizerState,
    TrainingConfig,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sgd_step,
    train_event,
)

__version__ = "0.1.0"
