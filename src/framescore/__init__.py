"""Weakly supervised localization of salient frames in motion time series.

Train a feed-forward classifier on trial-level labels, attribute its loss to
individual input frames via exact input gradients, normalize pooled frame
scores, and calibrate a detection threshold against F-beta.
"""

from .data import (
    DatasetManifest,
    FeatureSet,
    JointLayout,
    KeypointTrial,
    featurize,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .errors import ContractError, DataValidationError, NumericFailure
from .evaluation import (
    ConfusionCounts,
    FilterMode,
    ThresholdSweepReport,
    fbeta,
    histogram,
    run_experiment_matrix,
    select_frames,
    sweep,
)
from .network import (
    InputScaler,
    ModelArchitecture,
    TrainConfig,
    TrainedModel,
    bce_loss,
    forward,
    grid_search,
    input_gradient,
    load_model,
    save_model,
    train,
)
from .saliency import (
    FramePool,
    FrameScoreTrack,
    compute_saliency,
    compute_tracks,
    export_heatmap,
    frame_aggregate,
    importance_matrix,
    normalize_pool,
    windows_over_pool,
)
from .synth import SynthConfig, generate_dataset, generate_trial

__version__ = "0.1.0"

__all__ = [
    "ConfusionCounts",
    "ContractError",
    "DataValidationError",
    "DatasetManifest",
    "FeatureSet",
    "FilterMode",
    "FramePool",
    "FrameScoreTrack",
    "InputScaler",
    "JointLayout",
    "KeypointTrial",
    "ModelArchitecture",
    "NumericFailure",
    "SynthConfig",
    "ThresholdSweepReport",
    "TrainConfig",
    "TrainedModel",
    "bce_loss",
    "compute_saliency",
    "compute_tracks",
    "export_heatmap",
    "fbeta",
    "featurize",
    "forward",
    "frame_aggregate",
    "generate_dataset",
    "generate_trial",
    "grid_search",
    "histogram",
    "importance_matrix",
    "input_gradient",
    "load_dataset",
    "load_model",
    "normalize_pool",
    "run_experiment_matrix",
    "save_dataset",
    "save_model",
    "select_frames",
    "split_dataset",
    "sweep",
    "train",
    "windows_over_pool",
]
