"""Threshold-based auto-labeling with learned post-hoc confidence."""

from .data import (
    DataFormatError,
    Dataset,
    LabeledSet,
    LabelOutOfRangeError,
    MagicNumberError,
    Pool,
    RowCountMismatchError,
    TruncatedPayloadError,
    carve,
    load_dataset,
    random_query,
    random_split,
    synth_gaussian_mixture,
)
from .mlp import (
    MlpClassifier,
    TrainConfig,
    init_mlp,
    margin_scores,
    softmax,
    train_model,
)
from .confidence import (
    ConfidenceModel,
    ConfidenceNet,
    ConfidenceNetConfig,
    SoftmaxConfig,
    TemperatureConfidence,
    TemperatureConfig,
    TopLabelBinningConfig,
    TopLabelHistogramConfidence,
    sigmoid,
    write_score_dump,
)
from .thresholds import (
    ThresholdConfig,
    ThresholdVector,
    empirical_metrics,
    estimate_thresholds,
    uniform_grid,
)
from .loop import (
    RoundRecord,
    TbalConfig,
    TbalReport,
    active_query,
    auto_label_select,
    filter_validation,
    run_tbal,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .runner import hyperparameter_search, run_experiment

__version__ = "0.1.0"
